#include "core/session.h"

namespace mqa {

Result<AnswerTurn> Session::Ask(const std::string& text) {
  UserQuery query;
  query.text = text;
  query.selected_object = dialogue_.selected;
  return Run(query);
}

Result<AnswerTurn> Session::AskWithImage(const std::string& text,
                                         Payload image) {
  UserQuery query;
  query.text = text;
  query.uploaded_image = std::move(image);
  return Run(query);
}

Result<AnswerTurn> Session::Run(const UserQuery& query) {
  MQA_ASSIGN_OR_RETURN(AnswerTurn turn,
                       coordinator_->AskWithState(query, &dialogue_));
  ++rounds_;
  return turn;
}

void Session::Reset() {
  dialogue_.Clear();
  rounds_ = 0;
}

}  // namespace mqa
